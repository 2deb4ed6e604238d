//! Home-based LRC: the third protocol, proving the [`Coherence`] seam.
//!
//! Every page has a static *home* node (block assignment, so a block
//! partitioning keeps most pages homed where they are written). At
//! interval close a writer flushes each dirtied page's diff to its home;
//! a faulting reader asks the home and receives the whole up-to-date page
//! in a single round trip. Compared to the homeless lazy protocol, a
//! fault costs one request/reply pair regardless of how many writers are
//! pending — fewer messages — but the reply always carries a full page —
//! more data volume. This is the trade-off of home-based LRC as used by
//! user-level DSMs in the Ramesh & Varadarajan line of work.
//!
//! Ordering: a flush leaves the writer at interval close, *before* the
//! write notices for that interval can travel (notices ride on later
//! lock grants and barrier releases). A reader's request names the
//! `(writer, interval)` pairs it needs — its pending notices plus its
//! own last flush — and the home parks the request until its per-writer
//! watermarks cover them, so an overtaking request can never read a
//! stale home copy.

use std::collections::HashMap;

use cvm_sim::VirtualTime;

use crate::msg::Payload;
use crate::oracle::{InjectFault, Invariant};
use crate::page::{PageId, PageState};
use crate::trace::TraceEvent;

use super::{Coherence, DriverCore};

/// A faulting node's request the home cannot serve yet: waiting for
/// flushes that cover `needs`.
#[derive(Debug)]
struct ParkedReq {
    /// The faulting node (the home itself for a local fault).
    requester: usize,
    /// `(writer, interval)` pairs the reply must cover.
    needs: Vec<(usize, u32)>,
    /// The requester's RemoteFault span (0 when spans are off): the
    /// eventual reply must ride in it, not in whatever flush span
    /// happened to unpark the request.
    span: u64,
}

/// Home-based LRC.
#[derive(Debug, Default)]
pub(super) struct HomeLazy {
    /// Per writer node: page → the last interval flushed to the home
    /// (coverage the writer itself must wait for when it later faults).
    flushed_upto: Vec<HashMap<usize, u32>>,
    /// Per home node: page → requests parked until coverage.
    parked: Vec<HashMap<usize, Vec<ParkedReq>>>,
}

impl HomeLazy {
    /// The page's static home: block assignment over the shared segment,
    /// matching the block partitioning most SPMD apps use, so interior
    /// pages are homed where they are written.
    fn home_of(&self, core: &DriverCore, p: usize) -> usize {
        (p * core.cfg.nodes / core.cfg.pages()).min(core.cfg.nodes - 1)
    }

    /// Serves every parked request for `p` at home `n` that the current
    /// watermarks cover (in arrival order).
    fn check_parked(&mut self, core: &mut DriverCore, n: usize, p: usize, t: VirtualTime) {
        let Some(list) = self.parked[n].remove(&p) else {
            return;
        };
        let mut keep = Vec::new();
        for req in list {
            let covered = req
                .needs
                .iter()
                .all(|&(w, i)| core.ctl[n].applied_ivl(p, w) >= i);
            let serve = covered || skip_watermark(core);
            if serve && core.oracle.enabled() {
                core.oracle.check(Invariant::HomeServeCoverage, covered, Some(n), t, || {
                    format!("home {n} unparked a request for p{p} before its watermarks covered {:?}", req.needs)
                });
            }
            if !serve {
                keep.push(req);
            } else if req.requester == n {
                // The home's own fault: the page bytes are current now.
                core.complete_fetch(n, p, t);
            } else {
                self.reply(core, n, p, req.requester, req.span, t);
            }
        }
        if !keep.is_empty() {
            self.parked[n].insert(p, keep);
        }
    }

    /// Sends the whole current page, with per-writer watermarks so the
    /// requester can retire its write notices. The reply rides in `span`,
    /// the requester's fault span.
    fn reply(
        &self,
        core: &mut DriverCore,
        home: usize,
        p: usize,
        to: usize,
        span: u64,
        t: VirtualTime,
    ) {
        let data = core.cell(home).page_bytes(p).to_vec();
        let watermarks: Vec<(usize, u32)> = (0..core.cfg.nodes)
            .filter_map(|w| {
                let v = core.ctl[home].applied_ivl(p, w);
                (v > 0).then_some((w, v))
            })
            .collect();
        let saved = core.cur_span;
        core.cur_span = span;
        core.send_remote(
            home,
            to,
            Payload::HomeReply {
                page: PageId(p),
                data,
                watermarks,
            },
            t,
        );
        core.cur_span = saved;
    }
}

impl Coherence for HomeLazy {
    fn reset(&mut self, core: &mut DriverCore) {
        self.flushed_upto = (0..core.cfg.nodes).map(|_| HashMap::new()).collect();
        self.parked = (0..core.cfg.nodes).map(|_| HashMap::new()).collect();
    }

    /// Flush each closed page's diff to its home (even a silent close
    /// flushes, so the home's watermark always advances); the home itself
    /// only advances its own watermark.
    fn on_interval_close(&mut self, core: &mut DriverCore, n: usize, pages: &[usize]) {
        let now = core.ctl[n].sched.clock;
        for &p in pages {
            let entry = core.ensure_extracted(n, p);
            let upto = core.ctl[n].log.latest();
            let home = self.home_of(core, p);
            if home == n {
                let e = core.ctl[n].applied_ivl.entry((p, n)).or_insert(0);
                *e = (*e).max(upto);
                self.check_parked(core, n, p, now);
            } else {
                self.flushed_upto[n].insert(p, upto);
                core.stats.updates_pushed += 1;
                core.send_remote(
                    n,
                    home,
                    Payload::HomeFlush {
                        page: PageId(p),
                        diff: entry,
                        upto,
                    },
                    now,
                );
            }
        }
    }

    fn on_fault(&mut self, core: &mut DriverCore, n: usize, tid: usize, page: PageId, write: bool) {
        let p = page.0;
        if let Some(fetch) = core.ctl[n].fetches.get_mut(&p) {
            // The paper's "Block Same Page": an identical request is
            // already outstanding.
            fetch.waiters.push((tid, write));
            core.stats.block_same_page += 1;
            return;
        }
        // Fault overhead: user-level signal + protection change.
        let overhead = core.cfg.signal + core.cfg.mprotect;
        core.ctl[n].sched.clock += overhead;
        core.ctl[n].breakdown.user += overhead;
        let now = core.ctl[n].sched.clock;
        // Per pending writer, the highest interval we must see.
        let mut needs: Vec<(usize, u32)> = Vec::new();
        if let Some(pend) = core.ctl[n].pending.get(&p) {
            let mut by_writer: Vec<(usize, u32)> = Vec::new();
            for &(w, i) in pend {
                match by_writer.iter_mut().find(|e| e.0 == w) {
                    Some(e) => e.1 = e.1.max(i),
                    None => by_writer.push((w, i)),
                }
            }
            by_writer.sort_unstable();
            needs = by_writer;
        }
        let home = self.home_of(core, p);
        let state = core.cell(n).state[p];
        if n == home {
            let covered = needs
                .iter()
                .all(|&(w, i)| core.ctl[n].applied_ivl(p, w) >= i);
            if covered {
                // The home's bytes already reflect everything we know of:
                // validate and continue (e.g. a pre-startup touch).
                core.retire_pending(n, p);
                let mut cell = core.cell(n);
                if matches!(cell.state[p], PageState::Unmapped | PageState::Invalid) {
                    cell.state[p] = PageState::ReadOnly;
                }
                drop(cell);
                core.ctl[n].sched.ready.push_back(tid);
                return;
            }
            // Wait for the covering flushes to arrive.
            core.note_request_initiated(n);
            core.stats.remote_faults += 1;
            core.ctl[n].out_faults += 1;
            core.attr.page_mut(p).faults += 1;
            core.trace.record(
                now,
                TraceEvent::Fault {
                    node: n,
                    page,
                    write,
                },
            );
            let span = core.open_fetch(n, p, tid, write, now);
            self.parked[n].entry(p).or_default().push(ParkedReq {
                requester: n,
                needs,
                span,
            });
            return;
        }
        if state != PageState::Unmapped && needs.is_empty() {
            // Nothing newer than our copy exists: validate and continue.
            let mut cell = core.cell(n);
            if cell.state[p] == PageState::Invalid {
                cell.state[p] = PageState::ReadOnly;
            }
            drop(cell);
            core.ctl[n].sched.ready.push_back(tid);
            return;
        }
        // Ask the home for the whole page, once it covers our pending
        // notices AND our own last flush — without the latter, a reply
        // computed before our in-flight flush lands would lose our own
        // writes when it overwrites the page.
        if let Some(&own) = self.flushed_upto[n].get(&p) {
            needs.push((n, own));
        }
        core.note_request_initiated(n);
        core.stats.remote_faults += 1;
        core.ctl[n].out_faults += 1;
        core.attr.page_mut(p).faults += 1;
        core.trace.record(
            now,
            TraceEvent::Fault {
                node: n,
                page,
                write,
            },
        );
        let span = core.open_fetch(n, p, tid, write, now);
        core.cur_span = span;
        core.send_remote(n, home, Payload::HomeRequest { page, needs }, now);
        core.cur_span = 0;
    }

    fn on_message(
        &mut self,
        core: &mut DriverCore,
        n: usize,
        src: usize,
        payload: Payload,
        t: VirtualTime,
    ) {
        match payload {
            Payload::HomeFlush { page, diff, upto } => {
                let p = page.0;
                if let Some((tag, _gseq, d)) = diff {
                    {
                        let mut cell = core.cell(n);
                        d.apply(cell.page_bytes_mut(p));
                        // Keep a concurrent twin in step so the home's own
                        // next diff covers only its own writes.
                        if let Some(twin) = cell.twin_mut(p) {
                            d.apply(twin);
                        }
                    }
                    core.stats.diffs_used += 1;
                    let e = core.ctl[n].applied_dtag.entry((p, src)).or_insert(0);
                    *e = (*e).max(tag);
                }
                let e = core.ctl[n].applied_ivl.entry((p, src)).or_insert(0);
                *e = (*e).max(upto);
                if core.cfg.verify {
                    core.trace.record(
                        t,
                        TraceEvent::DiffApplied {
                            node: n,
                            page,
                            writer: src,
                            upto,
                        },
                    );
                }
                self.check_parked(core, n, p, t);
                if !core.ctl[n].fetches.contains_key(&p) {
                    // Retire satisfied notices; the home's copy stays
                    // usable without faulting.
                    let remaining = core.retire_pending(n, p);
                    if !remaining {
                        let mut cell = core.cell(n);
                        if cell.state[p] == PageState::Invalid {
                            cell.state[p] = PageState::ReadOnly;
                        }
                    }
                }
            }
            Payload::HomeRequest { page, needs } => {
                let p = page.0;
                let covered = needs
                    .iter()
                    .all(|&(w, i)| core.ctl[n].applied_ivl(p, w) >= i);
                let serve = covered || skip_watermark(core);
                if serve && core.oracle.enabled() {
                    core.oracle.check(Invariant::HomeServeCoverage, covered, Some(n), t, || {
                        format!("home {n} served p{p} for node {src} before its watermarks covered {needs:?}")
                    });
                }
                if serve {
                    self.reply(core, n, p, src, core.cur_span, t);
                } else {
                    self.parked[n].entry(p).or_default().push(ParkedReq {
                        requester: src,
                        needs,
                        span: core.cur_span,
                    });
                }
            }
            Payload::HomeReply {
                page,
                data,
                watermarks,
            } => {
                let p = page.0;
                for &(w, upto) in &watermarks {
                    let e = core.ctl[n].applied_ivl.entry((p, w)).or_insert(0);
                    *e = (*e).max(upto);
                    if core.cfg.verify {
                        // The race detector mirrors the watermark from
                        // this event, exempting home traffic from the
                        // stale-read check exactly like a diff apply.
                        core.trace.record(
                            t,
                            TraceEvent::DiffApplied {
                                node: n,
                                page,
                                writer: w,
                                upto,
                            },
                        );
                    }
                }
                if core.ctl[n].fetches.contains_key(&p) {
                    if let Some(f) = core.ctl[n].fetches.get_mut(&p) {
                        f.base = Some(data);
                    }
                    core.complete_fetch(n, p, t);
                }
            }
            other => unreachable!("home-lazy never receives {:?}", other.kind()),
        }
    }
}

/// Mutation self-test hook: pretend the `nth` uncovered request's
/// watermark check passed, serving the stale home copy (the parking
/// protocol is exactly what makes home-lazy safe under wire-dominant
/// latencies, so this is the fault `cvm check --mutate skip-watermark`
/// must catch).
fn skip_watermark(core: &mut DriverCore) -> bool {
    core.inject_hits(|f| match f {
        InjectFault::SkipHomeWatermark { nth } => Some(*nth),
        _ => None,
    })
}
