//! Coherence engine: the [`Coherence`] trait each protocol implements,
//! plus the mechanism every protocol shares — twins, diffs, interval
//! closes, write-notice application, and the fetch assembly used by the
//! pull-based protocols.
//!
//! The split mirrors CVM's class hierarchy: protocols "derive from the
//! base `Page`/`Protocol` classes and override only what differs". Here
//! the base class is `DriverCore`'s `pub(super)` mechanism methods; the
//! overrides are the trait hooks. See `lazy.rs`, `eager.rs` and `home.rs`
//! for the three implementations, and `DESIGN.md` for a guide to writing
//! a new one.

use cvm_sim::{SimDuration, VirtualTime};

use crate::diff::Diff;
use crate::interval::{VectorTime, WriteNotice};
use crate::msg::Payload;
use crate::oracle::{InjectFault, Invariant};
use crate::page::{PageId, PageState};
use crate::span::{SpanKind, SpanResource};
use crate::trace::TraceEvent;

use super::DriverCore;

/// A coherence protocol: the policy half of the DSM, driven by the
/// mechanism in [`DriverCore`].
///
/// Exactly one impl is active per run, selected once from the configured
/// [`ProtocolKind`](crate::ProtocolKind); no other layer branches on the
/// kind. Hooks receive `&mut DriverCore` so the protocol can use the
/// shared mechanism (fetch assembly, diff extraction, statistics,
/// `send_remote`) and keep its own state in `self`.
pub trait Coherence {
    /// Called once before the run starts and again at every measurement
    /// reset (`startup_done`): (re)initialize protocol-private state.
    fn reset(&mut self, core: &mut DriverCore);

    /// Called after node `n` closed an interval that dirtied `pages`
    /// (write notices are already logged). Push-style protocols ship data
    /// here; pull-style protocols do nothing.
    fn on_interval_close(&mut self, core: &mut DriverCore, n: usize, pages: &[usize]);

    /// Thread `tid` on node `n` faulted on `page`. The protocol decides
    /// what remote data (if any) satisfies the fault and parks the thread
    /// until it arrives.
    fn on_fault(&mut self, core: &mut DriverCore, n: usize, tid: usize, page: PageId, write: bool);

    /// A data-plane payload arrived at node `n` from `src`. Sync-service
    /// payloads (locks, barriers, reductions) are routed by the transport
    /// layer and never reach here.
    fn on_message(
        &mut self,
        core: &mut DriverCore,
        n: usize,
        src: usize,
        payload: Payload,
        t: VirtualTime,
    );
}

/// What a completed fetch put into the node's copy, for a protocol that
/// tracks more about a page than the shared watermarks.
#[derive(Debug)]
pub(super) struct Fetched {
    pub(super) page: usize,
    /// The whole page was overwritten by a fetched base copy first.
    pub(super) base_replaced: bool,
    /// The diffs applied, in application order: `(tag, close gseq,
    /// writer, diff)`.
    pub(super) diffs: Vec<(u32, u64, usize, Diff)>,
}

/// A page fetch in progress on one node.
#[derive(Debug, Default)]
pub(super) struct PendingFetch {
    pub(super) waiters: Vec<(usize, bool)>,
    pub(super) replies_needed: usize,
    pub(super) base: Option<Vec<u8>>,
    pub(super) diffs: Vec<(u32, u64, usize, Diff)>,
    /// When the fault left the node (histogram sample start).
    pub(super) started: VirtualTime,
    /// The RemoteFault span covering this fetch (0 when spans are off).
    pub(super) span: u64,
}

impl DriverCore {
    /// Shared fault path for the pull-based protocols: figure out what
    /// remote data the fault needs (a base copy, diffs per pending
    /// writer), open a [`PendingFetch`] and send the requests.
    pub(super) fn pull_fault(&mut self, n: usize, tid: usize, page: PageId, write: bool) {
        let p = page.0;
        if let Some(fetch) = self.ctl[n].fetches.get_mut(&p) {
            // An identical request is already outstanding: the paper's
            // "Block Same Page".
            fetch.waiters.push((tid, write));
            self.stats.block_same_page += 1;
            return;
        }
        // Fault overhead: user-level signal + protection change.
        let overhead = self.cfg.signal + self.cfg.mprotect;
        self.ctl[n].sched.clock += overhead;
        self.ctl[n].breakdown.user += overhead;
        let now = self.ctl[n].sched.clock;
        // What do we need? A base copy if we never had one, plus diffs for
        // every pending write notice, grouped by writer.
        let state = self.cell(n).state[p];
        let mut writers: Vec<(usize, u32)> = Vec::new(); // (writer, since)
        if let Some(pend) = self.ctl[n].pending.get(&p) {
            let mut ws: Vec<usize> = pend.iter().map(|&(w, _)| w).collect();
            ws.sort_unstable();
            ws.dedup();
            for w in ws {
                writers.push((w, self.ctl[n].applied_dtag(p, w)));
            }
        }
        let home = p % self.cfg.nodes;
        let need_base = state == PageState::Unmapped && home != n;
        if !need_base && writers.is_empty() {
            // Nothing remote is required (e.g. pre-startup touch of a page
            // homed here): validate and continue.
            let mut cell = self.cell(n);
            if matches!(cell.state[p], PageState::Unmapped | PageState::Invalid) {
                cell.state[p] = PageState::ReadOnly;
            }
            drop(cell);
            self.ctl[n].sched.ready.push_back(tid);
            return;
        }
        self.note_request_initiated(n);
        self.stats.remote_faults += 1;
        self.ctl[n].out_faults += 1;
        self.attr.page_mut(p).faults += 1;
        self.trace.record(
            now,
            TraceEvent::Fault {
                node: n,
                page,
                write,
            },
        );
        // The fault span's parent is whatever invalidated the page (the
        // lock grant or barrier release that delivered the notice), so
        // `cvm explain` can walk from a slow fault back to its cause.
        let parent = self.page_cause.get(&p).copied().unwrap_or(0);
        let span = self
            .spans
            .open(SpanKind::RemoteFault, n, SpanResource::Page(p), parent, now);
        let mut fetch = PendingFetch {
            waiters: vec![(tid, write)],
            started: now,
            span,
            ..Default::default()
        };
        if need_base {
            fetch.replies_needed += 1;
        }
        fetch.replies_needed += writers.len();
        self.ctl[n].fetches.insert(p, fetch);
        if need_base {
            self.cur_span =
                self.spans
                    .open(SpanKind::PagePull, n, SpanResource::Page(p), span, now);
            self.send_remote(n, home, Payload::PageRequest { page }, now);
        }
        for (w, since) in writers {
            self.cur_span =
                self.spans
                    .open(SpanKind::DiffPull, n, SpanResource::Page(p), span, now);
            self.send_remote(n, w, Payload::DiffRequest { page, since }, now);
        }
        self.cur_span = 0;
    }

    /// Shared message path for the pull-based protocols: page/diff
    /// requests and replies. Returns the fetch this message completed, if
    /// any, so the caller can apply protocol-specific bookkeeping (the
    /// eager protocol re-registers the node in the copyset and versions
    /// the words the fetch wrote).
    ///
    /// # Panics
    ///
    /// Panics on payloads that are not part of the pull mechanism; the
    /// caller matches its own payloads first.
    pub(super) fn pull_message(
        &mut self,
        n: usize,
        src: usize,
        payload: Payload,
        t: VirtualTime,
    ) -> Option<Fetched> {
        match payload {
            Payload::PageRequest { page } => {
                let data = self.cell(n).page_bytes(page.0).to_vec();
                self.send_remote(n, src, Payload::PageReply { page, data }, t);
                None
            }
            Payload::PageReply { page, data } => {
                // The reply closes the PagePull child it rode in on.
                self.spans.close(self.cur_span, t);
                let p = page.0;
                if let Some(f) = self.ctl[n].fetches.get_mut(&p) {
                    f.base = Some(data);
                    f.replies_needed -= 1;
                    if f.replies_needed == 0 {
                        return Some(self.complete_fetch(n, p, t));
                    }
                }
                None
            }
            Payload::DiffRequest { page, since } => {
                let _ = self.ensure_extracted(n, page.0);
                let upto = self.ctl[n].log.latest();
                let diffs: Vec<(u32, u64, Diff)> = self.ctl[n]
                    .diff_cache
                    .get(&page.0)
                    .map(|v| {
                        v.iter()
                            .filter(|&&(tag, _, _)| tag > since)
                            .cloned()
                            .collect()
                    })
                    .unwrap_or_default();
                self.send_remote(n, src, Payload::DiffReply { page, diffs, upto }, t);
                None
            }
            Payload::DiffReply { page, diffs, upto } => {
                // The reply closes the DiffPull child it rode in on.
                self.spans.close(self.cur_span, t);
                let p = page.0;
                let key = (p, src);
                let e = self.ctl[n].applied_ivl.entry(key).or_insert(0);
                *e = (*e).max(upto);
                if self.cfg.verify {
                    // The applied watermark can run ahead of our vector
                    // time; the race detector mirrors it from this event.
                    self.trace.record(
                        t,
                        TraceEvent::DiffApplied {
                            node: n,
                            page,
                            writer: src,
                            upto,
                        },
                    );
                }
                if let Some(f) = self.ctl[n].fetches.get_mut(&p) {
                    for (tag, gseq, d) in diffs {
                        f.diffs.push((tag, gseq, src, d));
                    }
                    f.replies_needed -= 1;
                    if f.replies_needed == 0 {
                        return Some(self.complete_fetch(n, p, t));
                    }
                }
                None
            }
            other => unreachable!("pull protocols never receive {:?}", other.kind()),
        }
    }

    /// All replies are in: apply base + diffs in happens-before order,
    /// retire satisfied notices, charge the local apply cost and wake the
    /// fault's waiters.
    pub(super) fn complete_fetch(&mut self, n: usize, page: usize, t: VirtualTime) -> Fetched {
        let mut fetch = self.ctl[n].fetches.remove(&page).expect("fetch exists");
        let mut words = 0usize;
        // Apply in happens-before order: close-sequence, then writer,
        // then the writer-local tag.
        fetch.diffs.sort_by_key(|&(tag, gseq, w, _)| (gseq, w, tag));
        if fetch.diffs.len() >= 2
            && self.inject_hits(|f| match f {
                InjectFault::ReorderDiffApply { nth } => Some(*nth),
                _ => None,
            })
        {
            fetch.diffs.reverse();
        }
        if self.oracle.enabled() {
            let ordered = fetch
                .diffs
                .windows(2)
                .all(|w| (w[0].1, w[0].2, w[0].0) <= (w[1].1, w[1].2, w[1].0));
            self.oracle
                .check(Invariant::DiffApplyOrder, ordered, Some(n), t, || {
                    format!("diffs for p{page} applied out of happens-before order")
                });
        }
        let base = fetch.base.take();
        {
            let mut cell = self.cell(n);
            if let Some(base) = &base {
                cell.page_bytes_mut(page).copy_from_slice(base);
            }
            for (_, _, _, d) in &fetch.diffs {
                d.apply(cell.page_bytes_mut(page));
                words += d.words_applied();
            }
        }
        let ctl = &mut self.ctl[n];
        for (tag, gseq, w, _) in &fetch.diffs {
            let e = ctl.applied_dtag.entry((page, *w)).or_insert(0);
            *e = (*e).max(*tag);
            let e = ctl.applied_gseq.entry(page).or_insert(0);
            *e = (*e).max(*gseq);
        }
        self.stats.diffs_used += fetch.diffs.len() as u64;
        self.trace.record(
            t,
            TraceEvent::FetchComplete {
                node: n,
                page: PageId(page),
                diffs: fetch.diffs.len(),
            },
        );
        // Retire satisfied notices.
        let remaining = self.retire_pending(n, page);
        {
            let mut cell = self.cell(n);
            cell.state[page] = if remaining {
                PageState::Invalid
            } else {
                PageState::ReadOnly
            };
        }
        // Local consistency cost: protection change + diff application,
        // charged to the faulting node.
        let cost = self.cfg.mprotect
            + SimDuration::from_ns(words as u64 * self.cfg.diff_word_apply.as_ns());
        self.ctl[n].sched.clock = self.ctl[n].sched.clock.max(t) + cost;
        self.ctl[n].breakdown.user += cost;
        self.ctl[n].out_faults -= 1;
        // Histogram sample: fault signal to page usable again, including
        // the local apply cost just charged.
        self.hist
            .fault_fetch_ns
            .record(self.ctl[n].sched.clock.since(fetch.started).as_ns());
        let clock = self.ctl[n].sched.clock;
        self.spans.close(fetch.span, clock);
        if let Some(rec) = self.spans.get(fetch.span) {
            self.attr.page_mut(page).fault_span_ns += rec.duration_ns();
        }
        for (tid, _write) in fetch.waiters {
            self.make_ready(n, tid, clock);
        }
        Fetched {
            page,
            base_replaced: base.is_some(),
            diffs: fetch.diffs,
        }
    }

    /// Opens a single-reply [`PendingFetch`] for `page` with `tid` as the
    /// first waiter (the shape every single-round-trip protocol uses).
    /// Returns the fetch's RemoteFault span id so the caller can stamp
    /// the outgoing request (0 when spans are off).
    pub(super) fn open_fetch(
        &mut self,
        n: usize,
        page: usize,
        tid: usize,
        write: bool,
        now: VirtualTime,
    ) -> u64 {
        let parent = self.page_cause.get(&page).copied().unwrap_or(0);
        let span = self.spans.open(
            SpanKind::RemoteFault,
            n,
            SpanResource::Page(page),
            parent,
            now,
        );
        self.ctl[n].fetches.insert(
            page,
            PendingFetch {
                waiters: vec![(tid, write)],
                replies_needed: 1,
                started: now,
                span,
                ..Default::default()
            },
        );
        span
    }

    /// Drops pending write notices for `page` that the applied-interval
    /// watermarks now cover; returns `true` if any remain.
    pub(super) fn retire_pending(&mut self, n: usize, page: usize) -> bool {
        let remaining: Vec<(usize, u32)> = self.ctl[n]
            .pending
            .get(&page)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&(w, i)| i > self.ctl[n].applied_ivl(page, w))
                    .collect()
            })
            .unwrap_or_default();
        if remaining.is_empty() {
            self.ctl[n].pending.remove(&page);
            false
        } else {
            self.ctl[n].pending.insert(page, remaining);
            true
        }
    }

    /// Closes the node's current interval if it dirtied any pages.
    pub(super) fn close_interval(&mut self, proto: &mut dyn Coherence, n: usize) {
        let pages = self.cell(n).close_dirty();
        if pages.is_empty() {
            return;
        }
        self.gseq += 1;
        let gseq = self.gseq;
        for &p in &pages {
            self.ctl[n].page_close_gseq.insert(p, gseq);
        }
        let page_ids: Vec<PageId> = pages.iter().copied().map(PageId).collect();
        let own_before = self.ctl[n].vt.get(n);
        let idx = self.ctl[n].log.close(page_ids.clone());
        let at = self.ctl[n].sched.clock;
        self.trace.record(
            at,
            TraceEvent::IntervalClosed {
                node: n,
                interval: idx,
                pages: page_ids.len(),
            },
        );
        if self.oracle.enabled() {
            // A node's own component tracks exactly its closed-interval
            // count, so each close extends it by one — no gaps, no
            // regression.
            self.oracle.check(
                Invariant::VtMonotonic,
                own_before + 1 == idx,
                Some(n),
                at,
                || format!("own vector component {own_before} but closed interval {idx}"),
            );
            self.oracle.check(
                Invariant::IntervalContiguity,
                idx == self.ctl[n].log.latest(),
                Some(n),
                at,
                || format!("interval {idx} closed out of sequence"),
            );
            for &page in &page_ids {
                self.trace.record(
                    at,
                    TraceEvent::NoticeCreated {
                        node: n,
                        writer: n,
                        interval: idx,
                        page,
                    },
                );
            }
        }
        self.ctl[n].vt.advance(n, idx);
        self.ctl[n].notice_store[n].insert(idx, page_ids);
        proto.on_interval_close(self, n, &pages);
    }

    /// Extracts (lazily) the node's pending modifications of `page` into a
    /// cached diff. Returns the newly created entry, if any.
    pub(super) fn ensure_extracted(&mut self, n: usize, page: usize) -> Option<(u32, u64, Diff)> {
        let has_twin = self.cell(n).has_twin(page);
        if !has_twin {
            return None;
        }
        let diff = {
            let cell = self.cell(n);
            let twin = cell.twin(page).expect("twin checked");
            Diff::create(PageId(page), twin, cell.page_bytes(page))
        };
        if diff.is_empty() {
            return None;
        }
        if self.oracle.enabled() {
            // The diff must be exactly the delta between twin and page:
            // patching the twin with it reproduces the current contents.
            let ok = {
                let cell = self.cell(n);
                let twin = cell.twin(page).expect("twin checked");
                let mut patched = twin.to_vec();
                diff.apply(&mut patched);
                patched == cell.page_bytes(page)
            };
            let at = self.ctl[n].sched.clock;
            self.oracle
                .check(Invariant::TwinDiffRoundTrip, ok, Some(n), at, || {
                    format!("diff of p{page} does not reproduce the page from its twin")
                });
        }
        let last_tag = self.ctl[n]
            .diff_cache
            .get(&page)
            .and_then(|v| v.last().map(|&(t, _, _)| t))
            .unwrap_or(0);
        let tag = self.ctl[n].log.latest().max(last_tag + 1).max(1);
        let gseq = match self.ctl[n].page_close_gseq.get(&page) {
            Some(&g) => g,
            None => {
                self.gseq += 1;
                self.gseq
            }
        };
        {
            // Refresh the twin (in place — the buffer is page sized and
            // already ours) so later diffs cover only newer writes.
            self.cell(n).refresh_twin(page);
        }
        let wire = diff.wire_bytes() as u64;
        let ctl = &mut self.ctl[n];
        ctl.cache_bytes += wire;
        ctl.cache_peak = ctl.cache_peak.max(ctl.cache_bytes);
        ctl.diff_cache
            .entry(page)
            .or_default()
            .push((tag, gseq, diff.clone()));
        self.cache_live_sum += wire;
        self.cache_global_peak = self.cache_global_peak.max(self.cache_live_sum);
        self.stats.diffs_created += 1;
        self.hist.diff_bytes.record(diff.modified_bytes() as u64);
        {
            let pa = self.attr.page_mut(page);
            pa.diffs_created += 1;
            pa.diff_bytes += diff.modified_bytes() as u64;
        }
        {
            let at = self.ctl[n].sched.clock;
            self.trace.record(
                at,
                TraceEvent::DiffCreated {
                    node: n,
                    page: PageId(page),
                    bytes: diff.modified_bytes(),
                },
            );
        }
        Some((tag, gseq, diff))
    }

    /// Merges `vt` into node `n`'s vector time, auditing (under `verify`)
    /// that the advance is sound: no component names an interval its
    /// writer never closed, and every interval newly covered has its
    /// write notices present in `n`'s store — the coverage half of LRC's
    /// correctness argument (a dropped notice means `n` silently keeps a
    /// stale copy while claiming to have seen the write).
    pub(super) fn checked_merge(&mut self, n: usize, vt: &VectorTime, at: VirtualTime) {
        if self.oracle.enabled() {
            for q in 0..self.cfg.nodes {
                let claimed = vt.get(q);
                let closed = self.ctl[q].log.latest();
                self.oracle
                    .check(Invariant::VtBounded, claimed <= closed, Some(n), at, || {
                        format!("timestamp names n{q}.{claimed} but only {closed} closed")
                    });
            }
            let before = self.ctl[n].vt.clone();
            self.ctl[n].vt.merge(vt);
            for q in 0..self.cfg.nodes {
                if q == n {
                    continue;
                }
                let to = self.ctl[n].vt.get(q);
                for ivl in before.get(q) + 1..=to {
                    let known = self.ctl[n].notice_store[q].contains_key(&ivl);
                    self.oracle
                        .check(Invariant::NoticeCoverage, known, Some(n), at, || {
                            format!("advanced past n{q}.{ivl} without its write notices")
                        });
                }
            }
        } else {
            self.ctl[n].vt.merge(vt);
        }
    }

    /// Applies incoming write notices at node `n`: record, and invalidate
    /// resident pages.
    pub(super) fn apply_notices(
        &mut self,
        proto: &mut dyn Coherence,
        n: usize,
        notices: &[WriteNotice],
    ) {
        // If an incoming notice invalidates a page we have dirtied in the
        // still-open interval, close the interval first: those writes
        // logically belong to the interval ended by our last release and
        // must get their own write notice, or remote copies would never
        // be invalidated for them.
        let must_close = {
            let cell = self.cell(n);
            notices
                .iter()
                .any(|wn| wn.writer != n && cell.dirty.contains(&wn.page.0))
        };
        if must_close {
            self.close_interval(proto, n);
        }
        for wn in notices {
            if wn.writer == n {
                continue;
            }
            // Record in the store (for later lock-grant computation).
            let slot = self.ctl[n].notice_store[wn.writer]
                .entry(wn.interval)
                .or_default();
            if !slot.contains(&wn.page) {
                slot.push(wn.page);
            }
            if self.cfg.verify {
                let at = self.ctl[n].sched.clock;
                self.trace.record(
                    at,
                    TraceEvent::NoticeCreated {
                        node: n,
                        writer: wn.writer,
                        interval: wn.interval,
                        page: wn.page,
                    },
                );
            }
            if wn.interval <= self.ctl[n].applied_ivl(wn.page.0, wn.writer) {
                continue; // already reflected in our copy
            }
            let pend = self.ctl[n].pending.entry(wn.page.0).or_default();
            if !pend.contains(&(wn.writer, wn.interval)) {
                pend.push((wn.writer, wn.interval));
            }
            let p = wn.page.0;
            // Remember which span delivered the notice: a later fault on
            // this page is *caused* by it, and links as its child.
            if self.cur_span != 0 {
                self.page_cause.insert(p, self.cur_span);
            }
            let state = self.cell(n).state[p];
            if state.readable() {
                let skip = self.inject_hits(|f| match f {
                    InjectFault::SkipInvalidate { nth } => Some(*nth),
                    _ => None,
                });
                if !skip {
                    // If we were concurrently writing it, extract our diff
                    // before losing the twin.
                    let _ = self.ensure_extracted(n, p);
                    let mut cell = self.cell(n);
                    cell.clear_twin(p);
                    cell.dirty.remove(&p);
                    cell.state[p] = PageState::Invalid;
                    drop(cell);
                    self.attr.page_mut(p).invalidations += 1;
                    let at = self.ctl[n].sched.clock;
                    self.trace.record(
                        at,
                        TraceEvent::Invalidated {
                            node: n,
                            page: wn.page,
                            writer: wn.writer,
                        },
                    );
                }
            }
            if self.oracle.enabled() {
                // The notice is now pending: a still-readable copy would
                // serve stale data.
                let readable = self.cell(n).state[p].readable();
                let at = self.ctl[n].sched.clock;
                self.oracle.check(
                    Invariant::PendingImpliesInvalid,
                    !readable,
                    Some(n),
                    at,
                    || {
                        format!(
                            "{} still readable with pending notice n{}.{}",
                            wn.page, wn.writer, wn.interval
                        )
                    },
                );
            }
        }
    }
}
