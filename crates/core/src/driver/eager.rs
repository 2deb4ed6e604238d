//! Munin-style eager update protocol.
//!
//! At every interval close the writer *pushes* its new diffs to every
//! node holding a copy. Readers rarely fault, but bandwidth scales with
//! the copyset — the comparison that motivated CVM's protocol work. An
//! adaptive copyset-pruning rule (drop a member after
//! [`PRUNE_AFTER_UNUSED`](crate::protocol::PRUNE_AFTER_UNUSED)
//! consecutive unused updates, as in Munin) keeps the protocol from
//! degenerating to broadcast.
//!
//! Faults still use the shared pull mechanism: a pruned or invalidated
//! node fetches lazily and thereby re-registers in the copyset.
//!
//! Pushes race with each other and with in-flight fetches, so a receiver
//! cannot blindly apply what arrives: a diff is applied only when the
//! copy already reflects everything the diff causally depends on (the
//! writer's previous diff of the page, and — carried in the push as
//! `base` — the version of the exact words the diff overwrites). A push
//! that arrives too early is *parked*, not dropped, and retried each
//! time the page's watermark advances; a push that arrives too late
//! (its sequence is already covered) is discarded. Without the `base`
//! guard, a delayed push chain let a node apply a newer diff first and
//! the recovery fetch then patched the missing *older* diff over it,
//! resurrecting overwritten words — the signature failure was a
//! lock-protected accumulator losing half its increments under
//! fault-injected reordering.

use std::collections::{BTreeMap, HashMap};

use cvm_sim::VirtualTime;

use crate::diff::Diff;
use crate::msg::Payload;
use crate::page::{PageId, PageState};
use crate::protocol::CopysetEntry;
use crate::trace::TraceEvent;

use super::{Coherence, DriverCore};

/// A push that arrived before its causal predecessors; retried when the
/// page's applied watermark advances.
struct ParkedPush {
    src: usize,
    tag: u32,
    diff: Diff,
    prev: u32,
    upto: u32,
    base: u64,
}

/// Eager update with adaptive copyset pruning.
///
/// The copysets are protocol-private state, driver-global as a stand-in
/// for the home-directory state a real system distributes.
#[derive(Default)]
pub(super) struct EagerUpdate {
    copysets: Vec<CopysetEntry>,
    /// Early pushes per `(node, page)`, ordered by close sequence.
    parked: HashMap<(usize, usize), BTreeMap<u64, ParkedPush>>,
}

impl std::fmt::Debug for EagerUpdate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EagerUpdate")
            .field("copysets", &self.copysets.len())
            .field("parked", &self.parked.len())
            .finish()
    }
}

/// Why a push could not be applied right now.
enum Refusal {
    /// Missing causal predecessors; worth retrying once they land.
    Early,
    /// Already covered or no copy to update; discard.
    Stale,
}

impl EagerUpdate {
    /// Applies one push if every guard passes. On refusal, says whether
    /// the push may still apply later (park it) or never will (drop it).
    #[allow(clippy::too_many_arguments)]
    fn try_apply(
        core: &mut DriverCore,
        n: usize,
        src: usize,
        page: PageId,
        tag: u32,
        gseq: u64,
        d: &Diff,
        prev: u32,
        upto: u32,
        base: u64,
        t: VirtualTime,
    ) -> Result<(), Refusal> {
        let p = page.0;
        if core.ctl[n].fetches.contains_key(&p) {
            // A lazy fetch is in flight; let it win rather than risk
            // applying out of order — then retry when it completes (the
            // reply may or may not already include this diff).
            return Err(Refusal::Early);
        }
        if !core.cell(n).state[p].has_copy() {
            return Err(Refusal::Stale);
        }
        if gseq <= core.ctl[n].applied_gseq.get(&p).copied().unwrap_or(0) {
            // A causally *later* diff is already in: applying this one
            // would resurrect overwritten words. The fetch that got ahead
            // of us already carried this data.
            return Err(Refusal::Stale);
        }
        if core.ctl[n].applied_dtag(p, src) < prev {
            // Gap in the writer's own diff stream (an earlier push is
            // still in flight). Applying this one would let `upto` retire
            // notices whose data we never received.
            return Err(Refusal::Early);
        }
        if core.ctl[n].word_base(p, d) < base {
            // The diff read-modify-wrote words whose versions we have not
            // applied. Accepting it would move our watermark past the
            // hole, and the recovery fetch would then patch the *older*
            // missing diff over this newer one — resurrecting overwritten
            // words (the classic lost-update under reordering). Compared
            // on the diff's own words, not the page watermark, so
            // word-disjoint concurrent diffs never block each other.
            return Err(Refusal::Early);
        }
        {
            let mut cell = core.cell(n);
            d.apply(cell.page_bytes_mut(p));
            // Keep a concurrent twin in step so our own next diff covers
            // only our own writes; otherwise the pushed words would be
            // re-diffed under our tag and overwrite the writer's later
            // updates on other copies.
            if let Some(twin) = cell.twin_mut(p) {
                d.apply(twin);
            }
        }
        core.stats.diffs_used += 1;
        let kd = (p, src);
        let e = core.ctl[n].applied_dtag.entry(kd).or_insert(0);
        *e = (*e).max(tag);
        core.ctl[n].applied_gseq.insert(p, gseq);
        core.ctl[n].note_words(p, d, gseq);
        let e = core.ctl[n].applied_ivl.entry(kd).or_insert(0);
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
        // Retire satisfied notices and revalidate if nothing is pending
        // any more.
        let remaining = core.retire_pending(n, p);
        if !remaining {
            let mut cell = core.cell(n);
            if cell.state[p] == PageState::Invalid {
                cell.state[p] = PageState::ReadOnly;
            }
        }
        Ok(())
    }

    /// Retries parked pushes for `(n, p)` in close-sequence order after
    /// the page's watermark moved (a push applied or a fetch completed).
    /// Sequences the watermark has passed are discarded — their data
    /// arrived through the fetch.
    fn drain_parked(&mut self, core: &mut DriverCore, n: usize, p: usize, t: VirtualTime) {
        let Some(held) = self.parked.get_mut(&(n, p)) else {
            return;
        };
        loop {
            let applied = core.ctl[n].applied_gseq.get(&p).copied().unwrap_or(0);
            while let Some((&g, _)) = held.first_key_value() {
                if g > applied {
                    break;
                }
                held.remove(&g);
            }
            let Some((&gseq, _)) = held.first_key_value() else {
                break;
            };
            let park = held.get(&gseq).expect("just peeked");
            let ok = Self::try_apply(
                core,
                n,
                park.src,
                PageId(p),
                park.tag,
                gseq,
                &park.diff,
                park.prev,
                park.upto,
                park.base,
                t,
            );
            match ok {
                Ok(()) => {
                    held.remove(&gseq);
                }
                Err(Refusal::Stale) => {
                    held.remove(&gseq);
                }
                Err(Refusal::Early) => break,
            }
        }
        if held.is_empty() {
            self.parked.remove(&(n, p));
        }
    }
}

impl Coherence for EagerUpdate {
    fn reset(&mut self, core: &mut DriverCore) {
        self.copysets = (0..core.cfg.pages())
            .map(|_| CopysetEntry::full(core.cfg.nodes))
            .collect();
        self.parked.clear();
    }

    /// At interval close, extract and push the new diff of every dirtied
    /// page to the page's copyset, pruning members that never touch the
    /// page between pushes (Munin's update timeout).
    fn on_interval_close(&mut self, core: &mut DriverCore, n: usize, pages: &[usize]) {
        let now = core.ctl[n].sched.clock;
        for &p in pages {
            let Some(entry) = core.ensure_extracted(n, p) else {
                continue;
            };
            // Tag of the diff before the one just extracted: the
            // receiver-side continuity check (never pruned, so the
            // second-to-last cache entry is authoritative).
            let prev = core.ctl[n]
                .diff_cache
                .get(&p)
                .and_then(|v| v.len().checked_sub(2).map(|i| v[i].0))
                .unwrap_or(0);
            let upto = core.ctl[n].log.latest();
            // Everything this diff causally depends on: the highest
            // version among the exact words it writes (a lock-protected
            // read-modify-write chains through here). Computed before the
            // diff's own words are recorded at its own close sequence.
            let base = core.ctl[n].word_base(p, &entry.2);
            core.ctl[n].note_words(p, &entry.2, entry.1);
            for target in self.copysets[p].push_targets(n) {
                if self.copysets[p].record_push(target) {
                    // Too many unused updates: drop the member. The
                    // notification stands in for the directory update a
                    // distributed implementation would send.
                    self.copysets[p].remove(target);
                    core.stats.copies_dropped += 1;
                    core.send_remote(
                        n,
                        target,
                        Payload::DropCopy {
                            page: PageId(p),
                            node: target,
                        },
                        now,
                    );
                } else {
                    core.stats.updates_pushed += 1;
                    core.trace.record(
                        now,
                        TraceEvent::UpdatePushed {
                            node: n,
                            page: PageId(p),
                            target,
                        },
                    );
                    core.send_remote(
                        n,
                        target,
                        Payload::UpdatePush {
                            page: PageId(p),
                            diff: entry.clone(),
                            prev,
                            upto,
                            base,
                        },
                        now,
                    );
                }
            }
        }
    }

    fn on_fault(&mut self, core: &mut DriverCore, n: usize, tid: usize, page: PageId, write: bool) {
        core.pull_fault(n, tid, page, write);
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
            Payload::UpdatePush {
                page,
                diff,
                prev,
                upto,
                base,
            } => {
                let p = page.0;
                let (tag, gseq, d) = diff;
                match Self::try_apply(core, n, src, page, tag, gseq, &d, prev, upto, base, t) {
                    Ok(()) => self.drain_parked(core, n, p, t),
                    Err(Refusal::Early) => {
                        self.parked.entry((n, p)).or_default().insert(
                            gseq,
                            ParkedPush {
                                src,
                                tag,
                                diff: d,
                                prev,
                                upto,
                                base,
                            },
                        );
                    }
                    Err(Refusal::Stale) => {}
                }
            }
            Payload::DropCopy { .. } => {
                // Informational: the writer stopped pushing to us. Our
                // copy stays valid until a write notice invalidates it;
                // the next fault re-registers us in the copyset.
            }
            other => {
                if let Some(p) = core.pull_message(n, src, other, t) {
                    // The faulting node demonstrably uses the page:
                    // (re)join the copyset.
                    self.copysets[p].add(n);
                    self.copysets[p].record_use(n);
                    // The fetch moved the watermark; early pushes that
                    // were waiting on it may now apply.
                    self.drain_parked(core, n, p, t);
                }
            }
        }
    }
}
